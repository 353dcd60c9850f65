#!/usr/bin/env bash
# Non-comment, non-blank Rust lines under each path: the counting rule
# every size number in CHANGES.md uses (whole files, inline test modules
# included). One line per path, then the total.
set -euo pipefail
[ $# -gt 0 ] || { echo "usage: scripts/size.sh <path>..." >&2; exit 2; }
total=0
for path in "$@"; do
  n=$(find "$path" -name '*.rs' -print0 | sort -z | xargs -0 cat \
    | grep -v '^\s*//' | grep -v '^\s*$' | wc -l)
  printf '%7d  %s\n' "$n" "$path"
  total=$((total + n))
done
printf '%7d  total\n' "$total"
