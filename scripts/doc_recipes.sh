#!/usr/bin/env bash
# Doc recipes: run every nosqlsim and suiterunner command line printed in a
# `sh` block of README.md and EXPERIMENTS.md, in document order, so a recipe
# that no longer runs fails CI. Both commands are built once; every recipe
# runs in one scratch directory (so a recorded trace is there for the replay
# recipes after it) with `-duration 2s` appended to keep the runs short.
# Recipes with a `...` placeholder are skipped. Exits non-zero on the first
# failing recipe.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
go build -o "$WORK/bin/" ./cmd/nosqlsim ./cmd/suiterunner

# One recipe per output line: fenced `sh` lines starting with a go run of
# either command, with comments dropped and `\` continuations joined.
recipes="$(awk '
  /^```/ { fence = !fence && $0 ~ /^```sh[[:space:]]*$/; next }
  !fence { next }
  {
    line = $0
    sub(/[[:space:]]+#.*$/, "", line)
    if (cmd == "" && line !~ /^go run \.\/cmd\/(nosqlsim|suiterunner)( |$)/) next
    cont = sub(/[[:space:]]*\\$/, "", line)
    cmd = cmd (cmd == "" ? "" : " ") line
    if (!cont) { if (cmd !~ /\.\.\./) print cmd; cmd = "" }
  }' README.md EXPERIMENTS.md)"

cd "$WORK"
n=0
while IFS= read -r recipe; do
  n=$((n + 1))
  echo "doc recipe $n: $recipe"
  run="${recipe/#go run .\/cmd\//$WORK/bin/}"
  if ! bash -c "$run -duration 2s" >"$WORK/out.txt" 2>&1; then
    cat "$WORK/out.txt"
    echo "doc recipe $n failed: $recipe"
    exit 1
  fi
done <<<"$recipes"
echo "all $n doc recipes ran"
