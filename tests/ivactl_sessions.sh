#!/usr/bin/env bash
# A store written over many `ivactl` sessions survives `ivactl rebuild`.
#
# One process per command, as an operator drives the CLI: create a store,
# define one text attribute, insert 100 tuples one process each (the table
# spills onto a second page between two sessions), rebuild, and check that
# `stats` counts 100 live tuples before and after and that a search finds
# the last tuple inserted.
#
# Usage: tests/ivactl_sessions.sh [path/to/ivactl]   (default: the release build)
set -euo pipefail

ivactl=${1:-target/release/ivactl}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
store=$work/s

live() { "$ivactl" stats "$store" | awk -F: '/tuples \(live\)/ { gsub(/ /, "", $2); print $2 }'; }
expect_live() {
    local got
    got=$(live)
    if [ "$got" != 100 ]; then
        echo "ivactl_sessions: $1: stats reports $got live tuples, expected 100" >&2
        exit 1
    fi
}

"$ivactl" create "$store" >/dev/null
"$ivactl" define "$store" text title >/dev/null
for i in $(seq 1 100); do
    "$ivactl" insert "$store" "title=product listing number $i" >/dev/null
done
expect_live "before rebuild"
"$ivactl" rebuild "$store" >/dev/null
expect_live "after rebuild"

top=$("$ivactl" search "$store" 1 "title=product listing number 100")
if ! grep -q '^#0 tid=99 dist=0.000$' <<<"$top" ||
    ! grep -q 'title = product listing number 100$' <<<"$top"; then
    echo "ivactl_sessions: search for 'number 100' after rebuild returned:" >&2
    echo "$top" >&2
    exit 1
fi
echo "ivactl_sessions: 100 live tuples before and after rebuild; 'number 100' found"
