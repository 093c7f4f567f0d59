#!/usr/bin/env bash
# Repo verify path: tier-1 build/tests plus the failure-scenario,
# multi-tenant scenario and policy-conformance harnesses, the paper
# reproduction gate (regenerated results/*.csv must match the committed
# ones), a warning-free clippy pass, formatting, and a warning-free doc
# build. Run from the repo root.
#
#   scripts/verify.sh           # the full gate
#   scripts/verify.sh --quick   # tier-1 only (release build + root tests)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

if [[ "${1:-}" == "--quick" ]]; then
  echo "verify: OK (quick — tier-1 only)"
  exit 0
fi

cargo test -q --workspace
cargo test -q --test failure_scenarios
# Fault transitions touch only the nodes whose windows open or close then;
# every node's fault state must still match the whole plan (DESIGN.md §6).
cargo test -q -p dosas --lib fault_state_matches_the_whole_plan_after_every_transition
# Pinned proptest counterexamples must stay checked in and keep passing:
# proptest replays every seed in the regressions file before generating new
# cases, so running the suite re-verifies each past failure on every gate.
test -s tests/property_driver.proptest-regressions || {
  echo "verify: tests/property_driver.proptest-regressions missing or empty" >&2
  exit 1
}
cargo test -q --test property_driver
cargo test -q --test property_tenants
# Multi-tenant scenario suite (DESIGN.md §11): every scenario's golden
# snapshot holds byte for byte.
cargo test -q --test tenant_scenarios
# Policy conformance (DESIGN.md §12): every pluggable contention-control
# policy replays the scenario suite bit-identically, the pinned
# competitor-policy goldens hold, and the solver family behind the CE
# policy agrees on the optimum up to k = 16.
cargo test -q --test policy_arena
cargo test -q -p dosas --lib solvers_cross_check_to_k16
# Incremental-fabric guarantees (DESIGN.md §10): the coalesced/dirty-set
# fill must be bit-identical to the from-scratch fill in both substrates,
# the compact-indexed progressive fill must reproduce the round-by-round
# reference fill bit for bit (rates and round counts; its share queue must
# fold a zero growth limit in link order), the link → flows index must
# match a rebuild and find exactly the union-find components of the dirty
# links, and zero-rate fault windows must not wedge completion tracking.
cargo test -q -p simkit --lib coalesced_fill_matches_eager_fill
cargo test -q -p cluster --lib incremental_fill_matches_full_rescan
cargo test -q -p cluster --lib progressive_fill_matches_round_by_round_reference
cargo test -q -p cluster --lib queued_limit_matches_the_link_order_fold
cargo test -q -p cluster --lib link_index_matches_rebuild_and_union_find
cargo test -q --test failure_scenarios zero_rate_stall_window_completes_after_recovery
# Topology gate (DESIGN.md §15): the star builder must reproduce the legacy
# single-switch fill bit-for-bit (so every pre-topology golden stays
# byte-identical), the fat-tree graph fill must match a full rescan, the
# churn schedule must stay pod-local (the fat-tree scenario's golden is
# part of the scenario suite above).
cargo test -q -p cluster --lib star_topology_fill_matches_legacy_star
cargo test -q -p cluster --lib fat_tree
cargo test -q -p bench --lib topology_churn
# The committed bench baseline must carry the fill-scaling acceptance: on
# the 10k-host fat-tree churn point the incremental fill beats a full
# rescan by >= 20x. bench_baseline asserts this at generation time; the
# check here keeps a stale or hand-edited baseline from slipping through.
python3 - <<'EOF'
import json
top = json.load(open("BENCH_simulator.json"))["topology"]
pt = next(p for p in top["points"] if p["hosts"] >= 9000)
ratio = pt["incremental_vs_full_ratio"]
assert ratio >= 20.0, f"topology 10k-host ratio regressed: {ratio}"
print(f"verify: topology 10k-host incremental-vs-full ratio {ratio:.0f}x")
EOF
# Reproduction gate: regenerate every table and figure of the paper (plus
# the ablations) into a scratch directory and diff each CSV against the
# committed results/. Only the two host wall-clock columns may differ:
# table3.csv column 4 (measured kernel MB/s) and ablate_solvers.csv
# column 3 (solver microseconds).
RESULTS_DIR="$(mktemp -d)"
trap 'rm -rf "$RESULTS_DIR"' EXIT
DOSAS_RESULTS_DIR="$RESULTS_DIR" cargo run -q --release -p bench --bin experiments >/dev/null
python3 - "$RESULTS_DIR" <<'EOF'
import csv, glob, os, sys
fresh_dir = sys.argv[1]
wall_clock = {"table3.csv": 3, "ablate_solvers.csv": 2}  # 0-based column
committed = sorted(glob.glob("results/*.csv"))
assert committed, "verify: no committed results/*.csv"
bad = []
for path in committed:
    name = os.path.basename(path)
    fresh_path = os.path.join(fresh_dir, name)
    if not os.path.exists(fresh_path):
        bad.append(f"{name}: not regenerated")
        continue
    skip = wall_clock.get(name)
    def rows(p):
        return [[c for i, c in enumerate(r) if i != skip] for r in csv.reader(open(p))]
    if rows(path) != rows(fresh_path):
        bad.append(name)
if bad:
    sys.exit("verify: results drifted from the committed CSVs: " + ", ".join(bad))
print(f"verify: {len(committed)} results/*.csv reproduced (wall-clock columns skipped)")
EOF
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

# Observability smoke: a small scenario with --obs-out must emit all three
# artifacts, the Prometheus snapshot must parse, and every timeline line
# must round-trip through serde (checked by the obs determinism suite; here
# we only assert the CLI surface works end to end).
OBS_DIR="$(mktemp -d)"
SOAK_DIR="$(mktemp -d)"
trap 'rm -rf "$RESULTS_DIR" "$OBS_DIR" "$SOAK_DIR"' EXIT
cargo run -q --release --bin dosas-sim -- \
    --scheme dosas --n 4 --size-mb 32 --obs-out "$OBS_DIR" >/dev/null
for f in metrics.prom timeline.jsonl trace.json; do
    test -s "$OBS_DIR/$f" || { echo "verify: missing obs artifact $f" >&2; exit 1; }
done
cargo run -q --release --bin dosas-sim -- --check-obs "$OBS_DIR"
# Soak smoke: the long-horizon scenario streams its timeline to disk at
# record time (O(1) memory); the streamed JSONL must pass the same
# validator as the ring-buffered path.
cargo run -q --release -p bench --bin scenario -- soak --summary --obs-out "$SOAK_DIR"
test -s "$SOAK_DIR/timeline.jsonl" || {
  echo "verify: soak streamed no timeline records" >&2
  exit 1
}
cargo run -q --release --bin dosas-sim -- --check-obs "$SOAK_DIR"
cargo test -q --test obs_determinism

# Request-autopsy gate (DESIGN.md §14): the additivity/partition proptests
# must hold, and `--explain` on a faulted scenario must render the
# attribution report — the artifact `--autopsy` / `--explain` ship.
cargo test -q --test property_autopsy
AUT_REPORT="$(mktemp)"
trap 'rm -rf "$RESULTS_DIR" "$OBS_DIR" "$SOAK_DIR" "$AUT_REPORT"' EXIT
cargo run -q --release -p bench --bin scenario -- straggler --explain \
    >"$AUT_REPORT" 2>/dev/null
grep -q '^# request autopsy' "$AUT_REPORT" || {
  echo "verify: --explain produced no autopsy report" >&2
  exit 1
}

echo "verify: OK"
