#!/usr/bin/env bash
# Compare two result files of perf/run.sh (perf/out/<seed>.json or a
# perf/baseline/ file), A the base and B the candidate:
#
#   perf/compare.sh A.json B.json
#
# One row per workload x end-to-end metric. The bound of each metric is read
# from BENCHMARK.json. A row is
#   regressed   when B is worse than A by more than the bound,
#   unresolved  when the repetitions of either run disagree (rep_iqr, the
#               distance between their quartiles over their median) by more than
#               the bound, so the difference cannot be told from noise,
#   ok          otherwise.
# Every ratio is printed with its base. Exits 1 on any `regressed` row or when
# B's failed_ops / attempted_ops is larger than A's, 2 on a usage error.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    sed -n '2,15p' "$0" >&2
    exit 2
fi
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

exec python3 - "$here/../BENCHMARK.json" "$1" "$2" <<'PY'
import json
import sys

manifest, base_path, cand_path = sys.argv[1:4]
with open(manifest) as f:
    metrics = json.load(f)["end_to_end"]
with open(base_path) as f:
    base = json.load(f)
with open(cand_path) as f:
    cand = json.load(f)

print(f"base A = {base_path} (commit {base['host']['commit']}, seed {base['seed']})")
print(f"cand B = {cand_path} (commit {cand['host']['commit']}, seed {cand['seed']})")
print(f"{'workload':<14} {'metric':<14} {'A (base)':>14} {'B':>14} {'B/A':>7} "
      f"{'bound':>6} {'iqr A':>6} {'iqr B':>6}  verdict")
bad = False
for name, a in base["workloads"].items():
    b = cand["workloads"].get(name)
    if b is None:
        print(f"{name:<14} missing from B")
        bad = True
        continue
    for m in metrics:
        ma, mb = a["metrics"][m["name"]], b["metrics"][m["name"]]
        ratio = mb["value"] / ma["value"] if ma["value"] else float("inf")
        worse = 1 / ratio if m["better"] == "higher" and ratio else ratio
        spread = max(ma["rep_iqr"], mb["rep_iqr"])
        if worse > 1 + m["bound"]:
            verdict = "regressed"
            bad = True
        elif spread > m["bound"]:
            verdict = "unresolved"
        else:
            verdict = "ok"
        print(f"{name:<14} {m['name']:<14} {ma['value']:>14.4f} {mb['value']:>14.4f} "
              f"{ratio:>7.3f} {m['bound']:>6.2f} {ma['rep_iqr']:>6.3f} "
              f"{mb['rep_iqr']:>6.3f}  {verdict} ({m['better']} is better, {ma['unit']})")
    fa = a["failed_ops"] / max(a["attempted_ops"], 1)
    fb = b["failed_ops"] / max(b["attempted_ops"], 1)
    verdict = "ok"
    if fb > fa:
        verdict = "regressed"
        bad = True
    print(f"{name:<14} {'failed_ops':<14} {a['failed_ops']:>7}/{a['attempted_ops']:<8} "
          f"{b['failed_ops']:>7}/{b['attempted_ops']:<8}  {verdict} (any increase of the failed share regresses)")
sys.exit(1 if bad else 0)
PY
