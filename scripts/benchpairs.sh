#!/usr/bin/env bash
# Paired host-time benchmark of the working tree against another commit:
# alternating runs of one BENCHMARK.json workload, parent and change, and per
# end-to-end metric both medians with quartiles and min–max, how many pairs
# the change won, and whether the claim rule holds: the change wins >= 9/10
# of all pairs (ties count for neither) and the medians differ, in the better
# direction, by more than the parent's quartile distance.
# Usage: scripts/benchpairs.sh <ref> <workload> [pairs=7] [seed=0]
# Each tree builds its own bench/ through its own bench/run.sh (one warm-up
# run each, discarded); the parent is unpacked under a mktemp dir (TMPDIR
# picks where) that is removed on exit. Exit 1 if any run reports
# "correct":false. Needs bash, tar and python3 only.
set -euo pipefail
if [ $# -lt 2 ]; then
  sed -n '2,12s/^# \{0,1\}//p' "$0" >&2
  exit 2
fi
ref=$1 workload=$2 pairs=${3:-7} seed=${4:-0}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git -C "$root" archive "$ref" | tar -x -C "$work/parent"
args=(--workload "$workload" --seed "$seed" --seconds 10 --trace 0)
for tree in "$work/parent" "$root"; do
  bash "$tree/bench/run.sh" "${args[@]}" >/dev/null 2>&1 ||
    { echo "benchpairs: warm-up run failed in $tree" >&2; exit 1; }
done
run() { # run <tree> <out file>: one result line, whatever the exit status
  (cd "$1" && ./.bench_build/tpbench "${args[@]}" 2>/dev/null | tail -n 1) >>"$2" || true
}
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    run "$work/parent" "$work/parent.jsonl"; run "$root" "$work/change.jsonl"
  else
    run "$root" "$work/change.jsonl"; run "$work/parent" "$work/parent.jsonl"
  fi
  echo "pair $i/$pairs done" >&2
done
python3 - "$root/BENCHMARK.json" "$work/parent.jsonl" "$work/change.jsonl" "$workload" "$ref" "$pairs" <<'EOF'
import json, statistics, sys
bench, parent_f, change_f, workload, ref, pairs = sys.argv[1:]
load = lambda f: [json.loads(l) for l in open(f) if l.strip()]
parent, change = load(parent_f), load(change_f)
if len(parent) != int(pairs) or len(change) != int(pairs):
    sys.exit(f"benchpairs: {len(parent)} parent and {len(change)} change results for {pairs} pairs: a run printed nothing")
quartiles = lambda v: statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
print(f"{workload}: {len(parent)} pairs, parent {ref} | change (working tree)")
for m in json.load(open(bench))["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    delta = f"{100 * (cm - pm) / pm:+.1f} %" if pm else "n/a"
    print(f"  {name:16} {pm:10.4g} [{min(p):.4g}–{max(p):.4g}] → {cm:10.4g} [{min(c):.4g}–{max(c):.4g}] "
          f"{m['unit']:3} {delta:>8}  change won {wins}/{len(p) - ties}  (bound {m['bound']:.0%}, {m['better']} is better)")
    print(f"    quartiles: parent {p1:.4g} / {pm:.4g} / {p3:.4g}, change {c1:.4g} / {cm:.4g} / {c3:.4g}")
    gap, iqr = (pm - cm) if lower else (cm - pm), p3 - p1
    holds = 10 * wins >= 9 * len(p) and gap > iqr
    print(f"    claim rule: {'holds' if holds else 'fails'} (won {wins}/{len(p)} pairs, need 9/10; "
          f"median gap {gap:.4g} vs parent quartile distance {iqr:.4g})")
    print(f"    parent: {' '.join(f'{v:.4g}' for v in p)}\n    change: {' '.join(f'{v:.4g}' for v in c)}")
bad = [side for side, runs in (("parent", parent), ("change", change)) for r in runs if not r["correct"]]
if bad:
    sys.exit(f"benchpairs: {len(bad)} run(s) reported \"correct\":false ({', '.join(sorted(set(bad)))})")
EOF
