#!/usr/bin/env bash
# bench_load.sh — regenerate results/BENCH_load.json (load-engine benchmarks).
#
# Runs the BenchmarkLoadCompute* micro-benchmarks plus BenchmarkE31FastPath,
# the BenchmarkAnalyzeAnalytic* closed-form tier benchmarks and the
# placement-search jobs BenchmarkBranchBoundT28 and BenchmarkAnnealT38
# with -benchmem -count=$BENCH_COUNT (default 3) at -cpu 1 (the GOMAXPROCS
# the baseline was recorded at), keeps each benchmark's
# fastest run, and writes results/BENCH_load.json recording the current
# ("after") numbers side by side with the committed pre-fast-path baseline
# ("before", results/BENCH_load_baseline.json; for the two search jobs, the
# whole-placement search energy) and the resulting speedup and
# allocation-reduction factors. Run from the repository root; `make bench`
# invokes this script.
set -euo pipefail

COUNT="${BENCH_COUNT:-3}"
BASELINE="results/BENCH_load_baseline.json"
OUT="results/BENCH_load.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "bench: go test -bench LoadCompute|E31FastPath|AnalyzeAnalytic|BranchBoundT28|AnnealT38 -benchmem -count=${COUNT} -cpu 1"
go test -run '^$' -bench '^(BenchmarkLoadCompute[A-Za-z]*|BenchmarkE31FastPath|BenchmarkAnalyzeAnalytic[A-Za-z0-9]*|BenchmarkBranchBoundT28|BenchmarkAnnealT38)$' \
    -benchmem -count="$COUNT" -cpu 1 . | tee "$RAW"

# Keep each benchmark's minimum ns/op run (and that run's B/op + allocs/op).
parsed=$(awk '
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        ns = $3; bytes = $5; allocs = $7
        if (!(name in best) || ns + 0 < best[name] + 0) {
            best[name] = ns; b[name] = bytes; a[name] = allocs
        }
    }
    END {
        for (name in best)
            printf "{\"name\":\"%s\",\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}\n",
                   name, best[name], b[name], a[name]
    }' "$RAW" | jq -s 'map({(.name): {ns_per_op, bytes_per_op, allocs_per_op}}) | add')

jq -n \
    --argjson after "$parsed" \
    --slurpfile base "$BASELINE" \
    --arg date "$(date -u +%F)" \
    --arg go "$(go env GOVERSION)" \
    --arg count "$COUNT" '
    ($base[0].benches) as $before |
    {
      note: "Load-engine benchmarks at -cpu 1: current tree (after, best of \($count) runs) vs the committed pre-fast-path baseline (before, also GOMAXPROCS 1). Regenerate with `make bench`.",
      generated: $date,
      go: $go,
      count: ($count | tonumber),
      baseline_commit: $base[0].commit,
      benches: ($after | to_entries | map(.key as $k | {
        key: $k,
        value: (.value + (
          if $before[$k] then {
            before: $before[$k],
            speedup: (($before[$k].ns_per_op / .value.ns_per_op * 100 | round) / 100),
            alloc_reduction: (if .value.allocs_per_op > 0
              then (($before[$k].allocs_per_op / .value.allocs_per_op * 100 | round) / 100)
              else null end)
          } else {} end))
      }) | from_entries)
    }' > "$OUT"

echo "bench: wrote $OUT"
jq -r '.benches | to_entries[] | select(.value.speedup != null) |
    "  \(.key): \(.value.ns_per_op) ns/op (\(.value.speedup)x vs baseline, allocs \(.value.before.allocs_per_op) -> \(.value.allocs_per_op))"' "$OUT"
