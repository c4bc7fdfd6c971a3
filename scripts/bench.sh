#!/bin/sh
# bench.sh runs the tier-1 performance benchmarks (cold/warm single-layer
# optimize, the whole-network warm-cache sweep, the sequential vs
# scheduled whole-network comparison, the tracing-off vs tracing-on
# overhead pair, the thistled warm-request service overhead, and the
# solver.Solve rung on the captured resnet18_L6 GPs) with -benchmem and
# records the result as a JSON trajectory point BENCH_<date>.json at the
# repo root, via scripts/benchjson. Successive points form the repo's
# performance history; diff them the same way tlreport diffs manifests.
#
# Usage: scripts/bench.sh [extra go-test args...]
#   scripts/bench.sh              # the tier-1 cache benchmarks
#   scripts/bench.sh -benchtime 5x
set -eu

cd "$(dirname "$0")/.."

# Same-day re-records must not overwrite the earlier point — the whole
# value of the trajectory is the before/after pair — so on collision the
# filename gains a letter suffix (BENCH_<date>b.json, c, ...).
out="BENCH_$(date -u +%Y%m%d).json"
if [ -e "$out" ]; then
    for s in b c d e f g h i j k; do
        cand="BENCH_$(date -u +%Y%m%d)$s.json"
        if [ ! -e "$cand" ]; then
            out="$cand"
            break
        fi
    done
    if [ -e "$out" ]; then
        echo "bench.sh: no free BENCH filename for today" >&2
        exit 1
    fi
fi
pattern='BenchmarkOptimizeColdCache|BenchmarkOptimizeColdPruned|BenchmarkOptimizeWarmCache|BenchmarkNetworkWarmCache|BenchmarkNetworkScheduler|BenchmarkOptimizeTracing|BenchmarkServeWarm|BenchmarkSolveL6'

echo "== go test -bench ($pattern)"
go test -run '^$' -bench "$pattern" -benchmem "$@" . ./internal/solver \
    | go run ./scripts/benchjson "$out"

echo "== wrote $out"
