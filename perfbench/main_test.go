package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"torusnet/internal/cliutil"
	"torusnet/internal/core"
	"torusnet/internal/load"
	"torusnet/internal/service"
	"torusnet/internal/torus"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runBench runs the benchmark in-process and decodes its last line.
func runBench(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	return res
}

// TestSmoke runs every workload for a second, untraced and traced, and
// checks that no op failed and that exactly the metrics BENCHMARK.json
// names are reported, each finite and in its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, w := range names {
		for _, mode := range []struct {
			trace   string
			metrics []struct{ Name, Unit string }
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			t.Run(w+"/trace"+mode.trace, func(t *testing.T) {
				res := runBench(t, "-workload", w, "-seed", "3", "-seconds", "1", "-trace", mode.trace,
					"-trace-out", filepath.Join(t.TempDir(), "spans.json"))
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %t, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(mode.metrics) {
					t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(mode.metrics))
				}
				for _, m := range mode.metrics {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
				if mode.trace == "0" && res.Metrics["success_share"].Value != 1 {
					t.Errorf("success_share %v, want 1 (fail_share 0)", res.Metrics["success_share"].Value)
				}
				if mode.trace == "1" {
					for _, name := range []string{"service.degraded_share", "service.rejected_share", "cluster.fill_errors"} {
						if v := res.Metrics[name].Value; v != 0 {
							t.Errorf("%s = %v, want 0", name, v)
						}
					}
				}
			})
		}
	}
}

// sequence is the first n inputs a workload generates, in a comparable
// form.
func sequence(w workload, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		switch w := w.(type) {
		case *hits:
			idx, _, _ := w.next(i % len(w.perm))
			out = append(out, describe(w.request(idx)))
		case *misses:
			out = append(out, describe(w.request(i)))
		case *clusterLoad:
			idx, node, _ := w.next(0)
			out = append(out, describe(w.request(idx))+string(rune('0'+node)))
		case *search:
			j := w.job(i)
			out = append(out, fmt.Sprint(j.Strategy, j.Seed))
		}
	}
	return out
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range workloadNames() {
		a, b := sequence(newWorkload(name, 7), 300), sequence(newWorkload(name, 7), 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if c := sequence(newWorkload(name, 8), 300); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

// TestMissesNeverRepeatsACachedKey checks the misses stream against the
// 512-entry cache: a key comes back only after at least 2000 requests.
func TestMissesNeverRepeatsACachedKey(t *testing.T) {
	m := newMisses(5)
	last := make(map[string]int)
	for i := 0; i < 20000; i++ {
		req := m.request(i)
		if err := req.Canonicalize(service.DefaultMaxNodes); err != nil {
			t.Fatalf("request %d (%s): %v", i, describe(m.request(i)), err)
		}
		key := req.CacheKey()
		if j, ok := last[key]; ok && i-j < 2000 {
			t.Fatalf("request %d repeats request %d's key %s", i, j, key)
		}
		last[key] = i
	}
}

// computedAnswer analyzes req with the real pipeline, as the server would.
func computedAnswer(t *testing.T, req service.AnalyzeRequest) answer {
	t.Helper()
	spec, err := cliutil.ParsePlacement(req.Placement)
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build(torus.New(req.K, req.D))
	if err != nil {
		t.Fatal(err)
	}
	alg, err := cliutil.ParseRouting(req.Routing)
	if err != nil {
		t.Fatal(err)
	}
	rep := core.AnalyzeCtx(context.Background(), p, alg, load.Options{Workers: 1})
	return answer{eMax: rep.Load.Max, total: rep.Load.Total, lower: rep.BestLowerBound(),
		engine: rep.Load.Engine, exact: rep.Load.Exact}
}

// TestExpectedTotalMatchesLoad checks the oracle's per-dimension Lee sum
// against load.ExpectedTotal's pairwise one on every workload's inputs.
func TestExpectedTotalMatchesLoad(t *testing.T) {
	var reqs []service.AnalyzeRequest
	h, m, cl := newHits(2), newMisses(2), newClusterLoad(2)
	for i := 0; i < 200; i++ {
		reqs = append(reqs, h.set[i%len(h.set)], m.request(i), cl.request(i))
	}
	for _, req := range reqs {
		if err := req.Canonicalize(service.DefaultMaxNodes); err != nil {
			continue // analytic-lane requests past the node limit
		}
		got, err := expectedTotal(req)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := cliutil.ParsePlacement(req.Placement)
		if err != nil {
			t.Fatal(err)
		}
		p, err := spec.Build(torus.New(req.K, req.D))
		if err != nil {
			t.Fatal(err)
		}
		if want := load.ExpectedTotal(p); got != want {
			t.Errorf("%s: per-dimension sum %v, load.ExpectedTotal %v", describe(req), got, want)
		}
	}
}

func TestOracle(t *testing.T) {
	req := service.AnalyzeRequest{K: 8, D: 3, Placement: "random:20:9", Routing: "udr"}
	canon := req
	if err := canon.Canonicalize(service.DefaultMaxNodes); err != nil {
		t.Fatal(err)
	}
	expected := func() (float64, error) { return expectedTotal(canon) }
	good := computedAnswer(t, req)
	if err := checkAnswer(req, good, expected); err != nil {
		t.Fatalf("a correct answer failed: %v", err)
	}

	low := good
	low.eMax = good.lower * 0.99
	wrongTotal := good
	wrongTotal.total++
	degraded := good
	degraded.degr = true
	linear := service.AnalyzeRequest{K: 16, D: 3, Placement: "linear:-3", Routing: "ODR"}
	analytic := answer{engine: load.EngineAnalytic, exact: true, eMax: load.ODRLinearMax(16, 3) + 1}
	for name, c := range map[string]struct {
		req service.AnalyzeRequest
		ans answer
	}{
		"e_max below its bound": {req, low},
		"total off Σ Lee":       {req, wrongTotal},
		"degraded":              {req, degraded},
		"analytic off Thm 2":    {linear, analytic},
	} {
		if err := checkAnswer(c.req, c.ans, expected); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// verifyAnswers counts a failing answer as one failed op, and a repeat
	// read of the same key (here a re-spelling) with another e_max too.
	reqs := []service.AnalyzeRequest{req, req, {K: 8, D: 3, Placement: " random:20:9", Routing: "UDR"}}
	low.idx = 1
	repeat := good
	repeat.idx = 2
	repeat.eMax = math.Nextafter(good.eMax, math.Inf(1))
	errs := verifyAnswers(context.Background(), [][]answer{{good, low}, {repeat}},
		func(idx int) service.AnalyzeRequest { return reqs[idx] }, true, 2)
	if len(errs) != 2 {
		t.Fatalf("verifyAnswers reported %d failures, want 2: %v", len(errs), errs)
	}
}

func TestTailLatency(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{2000, "p99"}, {999, "p90"}, {100, "p90"}, {40, "p75"}, {39, "p50"}} {
		lats := make([]time.Duration, c.n)
		for i := range lats {
			lats[i] = time.Duration(i)
		}
		if _, label := tailLatency(lats); label != c.want {
			t.Errorf("%d samples: %s, want %s", c.n, label, c.want)
		}
	}
}
