#!/usr/bin/env bash
# Runs the engine performance benchmarks — the compiled-topology hot path,
# its frozen legacy-engine baselines, the large-N O(active) benchmark, the
# service-layer pair (cold grid vs warm content-addressed cache) and the
# batched-dispatch pair (per-scenario grid vs ReplicaSet batches) — and
# emits BENCH_8.json with ns/op, B/op, allocs/op per benchmark plus the
# same-machine speedups: compiled engine over the legacy baseline, the
# warm-cache grid over the cold grid (service-layer contract >= 10x) and
# the batched grid over per-scenario dispatch.
# BENCH_<n>.json snapshots accumulate per PR; BENCH_7.json is the previous
# point of the trajectory. `go run ./cmd/benchdiff` prints the trajectory
# across every snapshot and fails on >10% regressions of the headline
# speedups between the last two points.
#
# Usage: scripts/bench.sh            # default -benchtime=2s
#        BENCHTIME=1x scripts/bench.sh   # CI smoke (pipeline check only;
#                                        # 1x timings are not meaningful)
#        OUT=path.json scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2s}"
OUT="${OUT:-BENCH_8.json}"
PATTERN='BenchmarkStepAllocFree|BenchmarkT7SimThroughput|BenchmarkT7LegacyEngine|BenchmarkSweepGrid$|BenchmarkSweepGridLegacyEngine|BenchmarkStepLargeN|BenchmarkSweepCachedGrid|BenchmarkSweepGridBatched|BenchmarkBatchedStep'

raw=$(go test -run=NONE -bench="$PATTERN" -benchtime="$BENCHTIME" -benchmem .)
printf '%s\n' "$raw"

# The runner's core count contextualizes the grid timings, which fan
# scenarios across GOMAXPROCS workers.
GOMAXPROCS_N=$(go env GOMAXPROCS 2>/dev/null || true)
[ -n "$GOMAXPROCS_N" ] || GOMAXPROCS_N=$(getconf _NPROCESSORS_ONLN)

printf '%s\n' "$raw" | awk -v benchtime="$BENCHTIME" -v gomaxprocs="$GOMAXPROCS_N" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name) # strip the -GOMAXPROCS suffix
	ns = ""; bytes = "null"; allocs = "null"
	for (i = 1; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i - 1)
		else if ($i == "B/op") bytes = $(i - 1)
		else if ($i == "allocs/op") allocs = $(i - 1)
	}
	if (ns == "") next
	n++
	names[n] = name; nss[n] = ns; bs[n] = bytes; as[n] = allocs
	lookup[name] = ns
}
END {
	printf "{\n"
	printf "  \"pr\": 8,\n"
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"gomaxprocs\": %s,\n", gomaxprocs
	printf "  \"benchmarks\": [\n"
	for (i = 1; i <= n; i++) {
		printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			names[i], nss[i], bs[i], as[i], (i < n ? "," : "")
	}
	printf "  ],\n"
	t7n = lookup["BenchmarkT7SimThroughput"]
	t7o = lookup["BenchmarkT7LegacyEngine"]
	swn = lookup["BenchmarkSweepGrid"]
	swo = lookup["BenchmarkSweepGridLegacyEngine"]
	swc = lookup["BenchmarkSweepCachedGrid"]
	swb = lookup["BenchmarkSweepGridBatched"]
	stb = lookup["BenchmarkBatchedStep/batched"]
	sts = lookup["BenchmarkBatchedStep/solo"]
	printf "  \"speedup_vs_legacy\": {"
	if (t7n > 0 && t7o > 0) printf "\"BenchmarkT7SimThroughput\": %.2f", t7o / t7n
	if (swn > 0 && swo > 0) printf ", \"BenchmarkSweepGrid\": %.2f", swo / swn
	printf "},\n"
	printf "  \"warm_cache_speedup\": "
	if (swn > 0 && swc > 0) printf "%.2f,\n", swn / swc; else printf "null,\n"
	printf "  \"batched_speedup\": "
	if (swn > 0 && swb > 0) printf "%.2f,\n", swn / swb; else printf "null,\n"
	printf "  \"batched_step_speedup\": "
	if (stb > 0 && sts > 0) printf "%.2f\n", sts / stb; else printf "null\n"
	printf "}\n"
}' > "$OUT"

echo "wrote $OUT"
