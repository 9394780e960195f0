GO ?= go
FUZZTIME ?= 5s
# fuzz targets as <package>:<FuzzName> pairs, one short budget each.
FUZZ_TARGETS := \
	./internal/torus:FuzzCoordDelta \
	./internal/torus:FuzzNodeRoundTrip \
	./internal/torus:FuzzLeeDistance \
	./internal/torus:FuzzWrapCoord \
	./internal/torus:FuzzTranslateEdge \
	./internal/load:FuzzSymmetryEngine \
	./internal/optimize:FuzzSearchLoads \
	./internal/service:FuzzDecodeAnalyzeRequest \
	./internal/placement:FuzzRecognizeLinear \
	./internal/cluster:FuzzHashRing \
	./internal/lintcheck:FuzzLintIgnoreDirective

.PHONY: all build test race vet lint lint-fix fuzz-smoke serve bench bench-smoke bench-service smoke-torusd smoke-cluster chaos profile ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the repository's own static-analysis suite (cmd/toruslint);
# it exits nonzero on any finding.
lint:
	$(GO) run ./cmd/toruslint ./...

# lint-fix applies every finding's mechanical fix, then fails if the fixes
# changed anything that was not committed (CI runs this to guarantee the
# tree is already in its fixed form) or if unfixable findings remain.
lint-fix:
	$(GO) run ./cmd/toruslint -fix ./...
	@git diff --exit-code -- . ':!results' || \
		{ echo "lint-fix: toruslint -fix changed files; commit the fixes above" >&2; exit 1; }

# fuzz-smoke gives each fuzz target a short budget; failures persist a
# crasher under <package>/testdata/fuzz for replay with plain go test.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$pkg $$fn"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$fn$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done

# serve runs the torusd analysis service in the foreground (ctrl-c stops it).
serve:
	$(GO) run ./cmd/torusd -addr :8080

# bench regenerates results/BENCH_load.json: load-engine micro-benchmarks
# (best of BENCH_COUNT runs) compared against the committed pre-fast-path
# baseline in results/BENCH_load_baseline.json.
bench:
	./scripts/bench_load.sh

# bench-smoke is the CI performance gate: fails on a >30% regression in
# allocs/op or in the generic/fast speed ratio (machine-independent checks
# only; see scripts/ci_bench_smoke.sh).
bench-smoke:
	./scripts/ci_bench_smoke.sh

# bench-service regenerates results/BENCH_service.json (cached vs uncached
# /v1/analyze latency and throughput on T^2_8).
bench-service:
	$(GO) run ./cmd/torusd -selfbench results/BENCH_service.json

# smoke-torusd builds the real binary, boots it, and drives one analyze
# request through /healthz + /v1/analyze + /debug/vars (CI gate).
smoke-torusd:
	./scripts/ci_torusd_smoke.sh

# smoke-cluster runs the full smoke plus the 3-node cluster leg: boot a
# sharded cluster, assert a hot key computes once cluster-wide and
# peer-fills everywhere else, kill its home shard mid-load, and assert the
# survivors stay available with exact local-compute fallback. The in-process
# multi-node suite (internal/cluster/harness) runs under -race first.
smoke-cluster:
	$(GO) test -race -count=1 ./internal/cluster/...
	TORUSD_SMOKE_CLUSTER=1 ./scripts/ci_torusd_smoke.sh

# profile captures a CPU profile from a running torusd's debug sidecar
# while streaming uncached analyze load at the API, then prints the top
# functions and the pprof label breakdown (endpoint/engine/experiment
# labels). Boot the server first:
#   go run ./cmd/torusd -addr :8080 -debug-addr 127.0.0.1:6060
profile:
	./scripts/profile_torusd.sh

# chaos runs the fault-injection suite under the race detector: every
# registered failpoint (including the cluster.* sites) fires against a live
# server, pool workers are crashed and wedged, degraded answers are
# replayed against the exact engine, a multi-node cluster is churned with
# kills, partitions, and armed cluster faults, and each test asserts a
# goroutine-leak-free recovery.
chaos:
	$(GO) test -race -count=1 ./internal/failpoint
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestDegraded|TestRetry|TestBreaker|TestHedged|TestClientDrains|TestNonRetryable' \
		./internal/service
	$(GO) test -race -count=1 -run 'TestCluster' ./internal/cluster/harness

ci: build vet test race lint chaos
