#!/usr/bin/env bash
# Benchmark drift report: regenerate the simulator baseline into a temp
# file and diff it against the committed BENCH_simulator.json, section by
# section. Timing metrics are reported as fresh/committed ratios (>1 is
# slower); deterministic counters (events, fills, flows) are checked
# for exact equality — a changed counter means the *simulation* changed,
# not the machine, and deserves a look before re-baselining.
#
#   scripts/bench_diff.sh             # report only
#   BENCH_DIFF_MAX_RATIO=1.5 \
#   scripts/bench_diff.sh --strict    # exit 1 on ratio > max or counter drift
#
# After an intentional change, refresh the committed baseline with
# `scripts/bench.sh baseline` and commit the diff.
set -euo pipefail
cd "$(dirname "$0")/.."

strict=0
[[ "${1:-}" == "--strict" ]] && strict=1

committed="BENCH_simulator.json"
test -s "$committed" || { echo "bench_diff: $committed missing" >&2; exit 1; }

fresh="$(mktemp --suffix=.json)"
trap 'rm -f "$fresh"' EXIT
echo "bench_diff: regenerating baseline (this runs the full driver suite)..."
cargo run -q --release -p bench --bin bench_baseline -- "$fresh"

STRICT=$strict MAX_RATIO="${BENCH_DIFF_MAX_RATIO:-2.0}" \
python3 - "$committed" "$fresh" <<'EOF'
import json, os, sys

committed = json.load(open(sys.argv[1]))
fresh = json.load(open(sys.argv[2]))
max_ratio = float(os.environ["MAX_RATIO"])
strict = os.environ["STRICT"] == "1"
failures = []

def ratio(sec, key, old, new):
    if not old:
        return
    r = new / old
    flag = ""
    if r > max_ratio or r < 1.0 / max_ratio:
        flag = "  <-- REGRESSION" if r > max_ratio else "  (faster)"
        if r > max_ratio:
            failures.append(f"{sec}/{key}: {r:.2f}x")
    print(f"  {key:42} {old:12.6f} -> {new:12.6f}  x{r:6.3f}{flag}")

def counter(sec, key, old, new):
    if old is None:
        print(f"  {key:42} {'(new)':>12} -> {new:<12}")
        return
    if old != new:
        failures.append(f"{sec}/{key}: counter {old} -> {new}")
        print(f"  {key:42} {old:>12} -> {new:<12}  <-- COUNTER DRIFT")

def points(section, key_field, time_keys, counter_keys=()):
    old_pts = {p[key_field]: p for p in committed[section]["points"]}
    new_pts = {p[key_field]: p for p in fresh[section]["points"]}
    print(f"[{section}]")
    for k in old_pts:
        if k not in new_pts:
            failures.append(f"{section}/{k}: point disappeared")
            continue
        for t in time_keys:
            ratio(section, f"{k}.{t}", old_pts[k][t], new_pts[k][t])
        for c in counter_keys:
            counter(section, f"{k}.{c}", old_pts[k].get(c), new_pts[k][c])

if committed["schema"] != fresh["schema"]:
    print(f"schema changed: {committed['schema']} -> {fresh['schema']}")

points("driver", "label", ["secs"], ["events", "events_cancelled"])
points("fabric_churn", "flows", ["full_rescan_secs", "incremental_secs"],
       ["churn_ops", "fills", "flows_refilled", "flows_reused",
        "fill_rounds"])
points("topology", "hosts",
       ["incremental_fill_secs_per_churn_event",
        "full_rescan_secs_per_churn_event"],
       ["flows_in_flight", "churn_ops", "fills",
        "flows_refilled", "flows_reused", "fill_rounds"])
points("scenarios", "name", ["secs"], ["events"])

print("[policies]")
old_cells = {(c["policy"], c["scenario"]): c for c in committed["policies"]["cells"]}
new_cells = {(c["policy"], c["scenario"]): c for c in fresh["policies"]["cells"]}
for k, old in old_cells.items():
    new = new_cells.get(k)
    if new is None:
        failures.append(f"policies/{k}: cell disappeared")
        continue
    counter("policies", f"{k[0]}/{k[1]}.events", old["events"], new["events"])
    if abs(old["makespan_secs"] - new["makespan_secs"]) > 1e-12:
        failures.append(f"policies/{k}: makespan drifted (simulated outcome changed)")
        print(f"  {k[0]}/{k[1]}.makespan_secs: "
              f"{old['makespan_secs']} -> {new['makespan_secs']}  <-- OUTCOME DRIFT")

print("[profile]")
old_d = committed["profile"]["dispatch"]
new_d = fresh["profile"]["dispatch"]
for sub in old_d:
    counter("profile", f"{sub}.events",
            old_d[sub]["events"], new_d.get(sub, {}).get("events"))
# Decision rounds: the round and row counts are deterministic, the
# per-round host cost is timing.
old_r = committed["profile"].get("decision_rounds", {})
new_r = fresh["profile"]["decision_rounds"]
for key in ("rounds", "rows"):
    counter("profile", f"decision_rounds.{key}", old_r.get(key), new_r[key])
if "round_us" in old_r:
    ratio("profile", "decision_rounds.round_us", old_r["round_us"], new_r["round_us"])
else:
    print(f"  {'decision_rounds.round_us':42} {'(new)':>12} -> {new_r['round_us']:<12.6f}")

if failures:
    print(f"\nbench_diff: {len(failures)} finding(s):")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1 if strict else 0)
print("\nbench_diff: no counter drift, all timing ratios within "
      f"x{max_ratio}")
EOF
