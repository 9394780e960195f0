#!/usr/bin/env bash
# ci_bench_smoke.sh — CI gate against load-engine performance regressions.
#
# Runs the paired fast/generic BenchmarkLoadCompute* benchmarks once at a
# short benchtime and fails on a >30% regression relative to the committed
# expectations in results/BENCH_load_baseline.json (.fastpath, .search). Only
# machine-independent quantities are gated so the check is stable across
# CI hardware:
#
#   1. allocs/op per benchmark must not exceed the recorded value by >30%
#      (allocation counts are deterministic, so this catches any lost
#      scratch reuse immediately); this covers the paired load benchmarks
#      (.fastpath) and the two placement-search jobs (.search), whose
#      incremental state allocates nothing per expansion or step;
#   2. the generic/fast ns-per-op ratio, measured within this single run,
#      must not fall below the recorded speedup by >30% (both sides see the
#      same machine and load, so the ratio cancels hardware out);
#   3. the analytic tier: the recognize+evaluate core must stay at
#      0 allocs/op at every k, its K256/K16 latency ratio must stay below
#      3x (the closed forms are O(1) in torus size), and the end-to-end
#      analytic dispatch must stay >=100x faster than the fast-path engine
#      within this same run.
#
# Absolute ns/op is deliberately NOT gated. Every benchmark runs at -cpu 1,
# the GOMAXPROCS the baseline records, so the generic engine's per-worker
# buffers and the fast/generic ratio do not depend on the host's core
# count. Run from the repository root; CI runs it via `make bench-smoke`.
set -euo pipefail

BASELINE="results/BENCH_load_baseline.json"
SLACK=1.3
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "bench-smoke: running paired load benchmarks and the search jobs"
go test -run '^$' \
    -bench '^(BenchmarkLoadCompute(ODR|ODRMulti|UDR)(Generic)?|BenchmarkAnalyzeAnalytic(K16|K64|K256)?|BenchmarkBranchBoundT28|BenchmarkAnnealT38)$' \
    -benchmem -benchtime=0.5s -count=1 -cpu 1 . | tee "$RAW"

# name -> ns/op and name -> allocs/op maps from this run.
measured=$(awk '
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        printf "{\"name\":\"%s\",\"ns\":%s,\"allocs\":%s}\n", name, $3, $7
    }' "$RAW" | jq -s 'map({(.name): {ns: .ns, allocs: .allocs}}) | add')

fail=0

echo "bench-smoke: checking allocs/op (limit = recorded x ${SLACK})"
while read -r name want got limit; do
    if [ "$got" = "null" ]; then
        echo "bench-smoke: FAIL — $name did not run" >&2
        fail=1
    elif [ "$(jq -n --argjson g "$got" --argjson l "$limit" '$g > $l')" = "true" ]; then
        echo "bench-smoke: FAIL — $name allocs/op $got > limit $limit (recorded $want)" >&2
        fail=1
    else
        echo "  ok $name allocs/op $got <= $limit"
    fi
done < <(jq -r --argjson m "$measured" --argjson s "$SLACK" '
    (.fastpath.benches + .search.benches) | to_entries[] |
    "\(.key) \(.value.allocs_per_op) \($m[.key].allocs // null) \(.value.allocs_per_op * $s | ceil)"' \
    "$BASELINE")

echo "bench-smoke: checking generic/fast speed ratios (floor = recorded / ${SLACK})"
while read -r key fast generic want; do
    ratio=$(jq -n --argjson m "$measured" --arg f "$fast" --arg g "$generic" \
        'if $m[$f] and $m[$g] then (($m[$g].ns / $m[$f].ns * 100 | round) / 100) else null end')
    floor=$(jq -n --argjson w "$want" --argjson s "$SLACK" '(($w / $s) * 100 | round) / 100')
    if [ "$ratio" = "null" ]; then
        echo "bench-smoke: FAIL — ratio $key: benchmark pair missing from run" >&2
        fail=1
    elif [ "$(jq -n --argjson r "$ratio" --argjson f "$floor" '$r < $f')" = "true" ]; then
        echo "bench-smoke: FAIL — $key fast path only ${ratio}x over generic, floor ${floor}x (recorded ${want}x)" >&2
        fail=1
    else
        echo "  ok $key speedup ${ratio}x >= ${floor}x"
    fi
done < <(jq -r '.fastpath.ratios | to_entries[] |
    "\(.key) \(.value.fast) \(.value.generic) \(.value.speedup)"' "$BASELINE")

echo "bench-smoke: checking the analytic tier"
for name in BenchmarkAnalyzeAnalyticK16 BenchmarkAnalyzeAnalyticK64 BenchmarkAnalyzeAnalyticK256; do
    allocs=$(jq -n --argjson m "$measured" --arg n "$name" '$m[$n].allocs // null')
    if [ "$allocs" = "null" ]; then
        echo "bench-smoke: FAIL — $name did not run" >&2
        fail=1
    elif [ "$allocs" != "0" ]; then
        echo "bench-smoke: FAIL — $name allocs/op $allocs, want 0" >&2
        fail=1
    else
        echo "  ok $name allocs/op 0"
    fi
done
flat=$(jq -n --argjson m "$measured" '
    if $m.BenchmarkAnalyzeAnalyticK16 and $m.BenchmarkAnalyzeAnalyticK256
    then (($m.BenchmarkAnalyzeAnalyticK256.ns / $m.BenchmarkAnalyzeAnalyticK16.ns * 100 | round) / 100)
    else null end')
if [ "$flat" = "null" ]; then
    echo "bench-smoke: FAIL — analytic K16/K256 pair missing from run" >&2
    fail=1
elif [ "$(jq -n --argjson f "$flat" '$f > 3')" = "true" ]; then
    echo "bench-smoke: FAIL — analytic latency grows with k: K256/K16 = ${flat}x, limit 3x" >&2
    fail=1
else
    echo "  ok analytic latency flat in k (K256/K16 = ${flat}x <= 3x)"
fi
adv=$(jq -n --argjson m "$measured" '
    if $m.BenchmarkLoadComputeODR and $m.BenchmarkAnalyzeAnalytic
    then (($m.BenchmarkLoadComputeODR.ns / $m.BenchmarkAnalyzeAnalytic.ns) | round)
    else null end')
if [ "$adv" = "null" ]; then
    echo "bench-smoke: FAIL — analytic/fast-path pair missing from run" >&2
    fail=1
elif [ "$(jq -n --argjson a "$adv" '$a < 100')" = "true" ]; then
    echo "bench-smoke: FAIL — analytic dispatch only ${adv}x over fast path, floor 100x" >&2
    fail=1
else
    echo "  ok analytic dispatch ${adv}x over fast path (floor 100x)"
fi

if [ "$fail" -ne 0 ]; then
    echo "bench-smoke: FAIL" >&2
    exit 1
fi
echo "bench-smoke: OK"
