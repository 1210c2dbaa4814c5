#!/usr/bin/env bash
# Byte-identity check of the working tree's tpsim against another commit's:
# stdout of every registered experiment, as text and as -csv, at -jobs 1, 2
# and 8, must compare equal; where it does not, the first lines of the diff
# are printed. The tier-1 tests already hold every id's output to
# internal/core/testdata/registry.golden at -scale 48 and at -jobs 1 and 4
# with default knobs; this script covers what that golden does not run: the
# default scale, -jobs 8, and the knob flag sets (-incremental, -thp fhpm,
# -thp always -thp-ksm-split).
# Usage: scripts/byteidentity.sh [ref] [workdir] [tpsim flags...]
# (ref defaults to HEAD~1; a workdir that already holds the ref's outputs
# skips re-running them; flags after the workdir go to both binaries, e.g.
# `scripts/byteidentity.sh HEAD~1 /tmp/bi -thp fhpm`).
set -euo pipefail
ref=${1:-HEAD~1}
work=${2:-$(mktemp -d)}
shift $(($# < 2 ? $# : 2))
extra="$*"
mkdir -p "$work/src"
git archive "$ref" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$work/old" ./cmd/tpsim)
go build -o "$work/new" ./cmd/tpsim
status=0
for tag in "-jobs 1" "-jobs 1 -csv" "-jobs 2" "-jobs 2 -csv" "-jobs 8" "-jobs 8 -csv"; do
  tag="$tag${extra:+ $extra}"
  for bin in old new; do
    out="$work/$bin${tag// /}.out"
    if [ "$bin" = new ] || [ ! -s "$out" ]; then
      # shellcheck disable=SC2086
      "$work/$bin" -quick -chaos-seed 7 $tag all dirtylog jitshare chaos check >"$out" 2>/dev/null
    fi
  done
  # pipefail: the pipeline fails when diff found differences (or head closed
  # the pipe on it), so a mismatch shows its first lines.
  if diff "$work/old${tag// /}.out" "$work/new${tag// /}.out" | head -n 40; then
    echo "identical: $tag"
  else
    echo "differs: $tag"
    status=1
  fi
done
exit $status
