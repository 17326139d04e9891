#!/usr/bin/env bash
# Same-runner A/B of the repository benchmark.
#
#   bash .github/scripts/perf-ab.sh BASE_TREE HEAD_TREE
#
# Builds each source tree through its own `perfbench/run.sh`, each into
# its own CARGO_TARGET_DIR under $PERF_AB_DIR (default: a new temporary
# directory; reuse one only for the same two trees, since cargo judges
# freshness by mtime and a build of one copy can pass for another),
# then runs every workload of BASE_TREE's BENCHMARK.json in 3
# alternating base/head pairs of 5 s each. Both runs of a pair use the
# same --seed; the first run of a pair alternates between base and head.
#
# Each end-to-end metric of each workload gets one verdict:
#   WORSE       head's median is worse than base's by more than the
#               metric's BENCHMARK.json bound and by more than base's
#               own spread (max - min over its runs, relative to its
#               median);
#   UNRESOLVED  otherwise, when base's spread is wider than the bound:
#               the runs cannot tell a change of that size from noise;
#   ok          otherwise.
# Exits 1 when any metric is WORSE or head failed more ops than base.
# UNRESOLVED metrics are listed but do not fail the run.
set -euo pipefail

pairs=3
seconds=5

if [ $# -ne 2 ]; then
    echo "usage: $0 BASE_TREE HEAD_TREE" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
dir=${PERF_AB_DIR:-$(mktemp -d)}
mkdir -p "$dir"
runs="$dir/runs.jsonl"
: > "$runs"

# One benchmark run; perfbench prints its result as the last stdout line.
run() { # side tree workload seed
    local result
    result=$(cd "$2" && CARGO_TARGET_DIR="$dir/$1" bash perfbench/run.sh \
        --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1)
    echo "$1 $3 seed=$4 $result" >&2
    printf '{"side":"%s","workload":"%s","result":%s}\n' "$1" "$3" "$result" >> "$runs"
}

workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$base/BENCHMARK.json")
for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        seed=$((9000 + i))
        if [ $((i % 2)) -eq 1 ]; then
            run base "$base" "$w" "$seed"
            run head "$head" "$w" "$seed"
        else
            run head "$head" "$w" "$seed"
            run base "$base" "$w" "$seed"
        fi
    done
done

python3 - "$base/BENCHMARK.json" "$runs" <<'PY'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
problems, unresolved = [], []
for w in (w["name"] for w in bench["workloads"]):
    side = {s: [r["result"] for r in runs if r["workload"] == w and r["side"] == s]
            for s in ("base", "head")}
    failed = {s: sum(r["failed"] for r in side[s]) for s in side}
    print(f"{w}: {len(side['head'])} pairs, failed ops base {failed['base']} head {failed['head']}")
    if failed["head"] > failed["base"]:
        problems.append(f"{w}: head failed {failed['head']} ops, base {failed['base']}")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        values = {s: [r["metrics"][name]["value"] for r in side[s]] for s in side}
        b, h = (statistics.median(values[s]) for s in ("base", "head"))
        spread = (max(values["base"]) - min(values["base"])) / b
        worse = (h - b) / b if m["better"] == "lower" else (b - h) / b
        if worse > max(bound, spread):
            verdict = "WORSE"
            problems.append(f"{w}: {name} median worse by {worse:.1%} "
                            f"(base {b:.6g}, head {h:.6g}, bound {bound:.0%}, "
                            f"base spread {spread:.1%})")
        elif spread > bound:
            verdict = "UNRESOLVED"
            unresolved.append(f"{w}: {name} (base spread {spread:.1%}, bound {bound:.0%})")
        else:
            verdict = "ok"
        print(f"  {name:<12} base {b:<12.6g} head {h:<12.6g} {m['unit']:<4} "
              f"worse by {worse:+7.1%} (bound {bound:.0%}, base spread {spread:5.1%}) {verdict}")
if unresolved:
    print("perf-ab: unresolved, base spread wider than the bound:\n  " + "\n  ".join(unresolved))
if problems:
    print("perf-ab: head regressed:\n  " + "\n  ".join(problems))
    sys.exit(1)
print(f"perf-ab: no end-to-end metric worse than its bound ({len(unresolved)} unresolved)")
PY
