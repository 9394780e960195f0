package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"time"

	"torusnet/internal/bisect"
	"torusnet/internal/cliutil"
	"torusnet/internal/cluster"
	"torusnet/internal/core"
	"torusnet/internal/load"
	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/service"
	"torusnet/internal/torus"
)

// layerMetrics lists every per-layer metric with its unit, in the order
// BENCHMARK.json does. A metric a workload does not exercise reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"service.handler_us", "us"},
	{"service.transport_share", "ratio"},
	{"service.canonicalize_us", "us"},
	{"service.encode_us", "us"},
	{"service.cache_hit_share", "ratio"},
	{"service.analytic_share", "ratio"},
	{"service.queue_wait_ms", "ms"},
	{"service.coalesced", "count"},
	{"service.rejected_share", "ratio"},
	{"service.degraded_share", "ratio"},
	{"core.analyze_ms", "ms"},
	{"load.generic_ms", "ms"},
	{"load.symmetry_ms", "ms"},
	{"load.symmetry_share", "ratio"},
	{"load.pairs_per_s", "1/s"},
	{"load.analytic_ns", "ns"},
	{"placement.build_us", "us"},
	{"placement.stabilizer_us", "us"},
	{"bisect.sweep_ms", "ms"},
	{"bisect.dimcut_ms", "ms"},
	{"optimize.bnb_nodes_per_s", "1/s"},
	{"optimize.bnb_visited", "count"},
	{"optimize.bnb_pruned_share", "ratio"},
	{"optimize.anneal_steps_per_s", "1/s"},
	{"optimize.job_overhead_ms", "ms"},
	{"cluster.peer_fill_share", "ratio"},
	{"cluster.peer_fill_ms", "ms"},
	{"cluster.replica_hit_share", "ratio"},
	{"cluster.fill_errors", "count"},
	{"cluster.ring_lookup_ns", "ns"},
	{"obs.tracing_overhead", "ratio"},
}

// Span names the probes record, one per public layer function called.
const (
	spanHandler    = "service.Handler"
	spanCanon      = "service.Canonicalize"
	spanEncode     = "json.Marshal"
	spanCore       = "core.AnalyzeCtx"
	spanLoad       = "load.ComputeCtx"
	spanAnalytic   = "load.AnalyticAnswer"
	spanBuild      = "placement.Spec.Build"
	spanStabilizer = "placement.TranslationStabilizer"
	spanSweep      = "bisect.Sweep"
	spanDimCut     = "bisect.BestDimensionCut"
	spanRing       = "cluster.Ring.OwnersN"
)

// loopCalls is how many calls one span covers for functions too fast to
// time one call at a time (AnalyticAnswer, Ring.OwnersN).
const loopCalls = 1000

// ringRounds is how many loopCalls spans the ring probe records.
const ringRounds = 16

// layerContext carries what a workload's layers method needs: the traced
// target, the tracer receiving the probe spans, the probe budget, and the
// report to fill.
type layerContext struct {
	t      *target
	tracer *obs.Tracer
	budget time.Duration
	rep    *report
	// untracedP50 is the untraced loop's median op latency.
	untracedP50 time.Duration
}

// tracedRun replays the workload's seeded inputs with tracing on and
// reports the per-layer metrics. Phase A is an untraced loop, the baseline
// for obs.tracing_overhead; phase B the same loop with a root span per op
// and the program's tracer on, over which the /metrics counters are
// differenced; phase C calls each layer's public function on the
// workload's inputs, one span per call. The spans are written to traceOut.
func tracedRun(ctx context.Context, w workload, cond conditions, dur time.Duration, traceOut string) (*report, error) {
	phase := dur * 2 / 5
	rep := &report{notes: make(map[string]string)}
	for _, m := range layerMetrics {
		rep.set(m.name, 0, m.unit)
	}

	t, err := w.setup(ctx, nil)
	if err != nil {
		return nil, err
	}
	warmA := closedLoop(ctx, w, t, cond.Clients, warmup(dur), nil)
	a := closedLoop(ctx, w, t, cond.Clients, phase, nil)
	if err := t.stop(ctx); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	obs.SetCountersEnabled(true)
	defer obs.SetCountersEnabled(false)
	serverTracer := obs.NewTracer(1 << 12)
	benchTracer := obs.NewTracer(1 << 18)
	t, err = w.setup(ctx, serverTracer)
	if err != nil {
		return nil, err
	}
	warmB := closedLoop(ctx, w, t, cond.Clients, warmup(dur), nil)
	before, err := scrape(t)
	if err != nil {
		return nil, errors.Join(err, t.stop(ctx))
	}
	b := closedLoop(ctx, w, t, cond.Clients, phase, benchTracer)
	after, err := scrape(t)
	if err != nil {
		return nil, errors.Join(err, t.stop(ctx))
	}
	if a.ops == 0 || b.ops == 0 {
		return nil, errors.Join(errNoOps, t.stop(ctx))
	}
	delta := make(map[string]float64, len(after))
	for k, v := range after {
		delta[k] = v - before[k]
	}
	lc := &layerContext{t: t, tracer: benchTracer, budget: dur - 2*phase, rep: rep,
		untracedP50: quantileDur(a.lats, 0.5)}
	lerr := w.layers(ctx, lc)
	if err := t.stop(ctx); err != nil || lerr != nil {
		return nil, errors.Join(lerr, err)
	}

	ops := float64(b.ops)
	rep.set("service.cache_hit_share", share(delta["torusd_cache_hits_total"],
		delta["torusd_cache_hits_total"]+delta["torusd_cache_misses_total"]), "ratio")
	rep.set("service.analytic_share", share(delta["torusd_analytic_hits_total"], ops), "ratio")
	rep.set("service.queue_wait_ms", 1000*share(delta["torusd_pool_queue_wait_seconds_sum"], delta["torusd_pool_queue_wait_seconds_count"]), "ms")
	rep.set("service.coalesced", delta["torusd_coalesced_total"], "count")
	rep.set("service.rejected_share", share(delta["torusd_queue_full_total"]+delta["torusd_jobs_rejected_total"], ops), "ratio")
	rep.set("service.degraded_share", share(delta["torusd_degraded_total"], ops), "ratio")
	rep.set("cluster.peer_fill_share", share(delta["torusd_peer_fills_total"], ops), "ratio")
	rep.set("cluster.peer_fill_ms", 1000*share(delta["torusd_peer_fill_seconds_sum"], delta["torusd_peer_fill_seconds_count"]), "ms")
	rep.set("cluster.fill_errors", delta["torusd_peer_fill_errors_total"], "count")
	tracedP50 := quantileDur(b.lats, 0.5)
	rep.set("obs.tracing_overhead", float64(tracedP50)/float64(lc.untracedP50)-1, "ratio")
	rep.notes["obs.tracing_overhead"] = fmt.Sprintf("traced p50 %.4g ms / untraced p50 %.4g ms", ms(tracedP50), ms(lc.untracedP50))

	traces := benchTracer.Snapshot(0)
	if err := writeJSONFile(traceOut, struct {
		Conditions   conditions  `json:"conditions"`
		BenchSpans   []obs.Trace `json:"bench_traces"`
		ProgramSpans []obs.Trace `json:"program_traces"`
	}{cond, traces, serverTracer.Snapshot(0)}); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.log = append(rep.log, fmt.Sprintf("spans: %d bench traces, %d program traces written to %s",
		len(traces), serverTracer.Stats().Buffered, traceOut))

	rep.attempted = w.setupOps() + warmA.ops + a.ops + warmB.ops + b.ops
	rep.fail(append(append(append(warmA.errs, a.errs...), warmB.errs...), b.errs...), w.verify(ctx))
	return rep, nil
}

func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrape reads every node's /metrics through its handler and sums the
// unlabelled series over the nodes.
func scrape(t *target) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, srv := range t.servers {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("GET /metrics: status %d", rec.Code)
		}
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
				continue
			}
			name, value, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
			if err != nil {
				return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
			}
			out[name] += v
		}
	}
	return out, nil
}

// prober records one span per layer call, each call under its own root.
type prober struct {
	tracer *obs.Tracer
	// input labels the probe root spans with the input being probed, so
	// the written spans can be split by torus and placement.
	input string
}

// call runs fn under a root span holding one child span named name, so
// the program's own stage spans nest under it.
func (p *prober) call(ctx context.Context, name string, fn func(ctx context.Context, sp *obs.Span)) {
	ctx, root := p.tracer.Root(ctx, "bench.probe", "")
	defer root.End()
	root.SetAttr("input", p.input)
	cctx, sp := obs.Start(ctx, name)
	defer sp.End()
	fn(cctx, sp)
}

// probeHandler serves one request through h with a recorder: the whole
// server stack with no transport.
func (p *prober) probeHandler(ctx context.Context, h http.Handler, method, path string, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	p.call(ctx, spanHandler, func(cctx context.Context, _ *obs.Span) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(cctx)
		h.ServeHTTP(rec, req)
	})
	if rec.Code < 200 || rec.Code > 299 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

// probeEncode times the JSON encoding of a response value.
func (p *prober) probeEncode(ctx context.Context, v any) error {
	var err error
	p.call(ctx, spanEncode, func(context.Context, *obs.Span) { _, err = json.Marshal(v) })
	return err
}

// probeCompute calls the computed path's layer functions on one placement:
// Spec.Build, TranslationStabilizer, load.ComputeCtx, bisect.Sweep,
// bisect.BestDimensionCut and core.AnalyzeCtx, each on a freshly built
// placement so no lazily cached state carries over between calls.
func (p *prober) probeCompute(ctx context.Context, k, d int, spec placement.Spec, alg routing.Algorithm) error {
	tor := torus.New(k, d)
	build := func() (*placement.Placement, error) { return spec.Build(tor) }
	var pl *placement.Placement
	var err error
	p.call(ctx, spanBuild, func(context.Context, *obs.Span) { pl, err = build() })
	if err != nil {
		return err
	}
	p.call(ctx, spanStabilizer, func(context.Context, *obs.Span) { pl.TranslationStabilizer() })
	// The server pins one load-engine worker per analysis.
	opts := load.Options{Workers: 1}
	if pl, err = build(); err != nil {
		return err
	}
	p.call(ctx, spanLoad, func(cctx context.Context, sp *obs.Span) {
		before := routedPairs()
		res := load.ComputeCtx(cctx, pl, alg, opts)
		sp.SetAttr("engine", res.Engine)
		sp.SetAttrInt("pairs", routedPairs()-before)
	})
	p.call(ctx, spanSweep, func(context.Context, *obs.Span) { bisect.Sweep(pl) })
	p.call(ctx, spanDimCut, func(context.Context, *obs.Span) { bisect.BestDimensionCut(pl) })
	if pl, err = build(); err != nil {
		return err
	}
	p.call(ctx, spanCore, func(cctx context.Context, _ *obs.Span) { core.AnalyzeCtx(cctx, pl, alg, opts) })
	return nil
}

// routedPairs sums the routing kernels' pair counters.
func routedPairs() int64 {
	var n int64
	for _, c := range obs.Counters() {
		if strings.HasPrefix(c.Name(), "torusnet_routing_") && strings.HasSuffix(c.Name(), "_pairs_total") {
			n += c.Value()
		}
	}
	return n
}

// probeRing times Ring.OwnersN over keys on a ring of the cluster's shape.
func (p *prober) probeRing(ctx context.Context, keys []string) {
	if len(keys) == 0 {
		return
	}
	peers := make([]string, clusterNodes)
	for i := range peers {
		peers[i] = fmt.Sprintf("http://127.0.0.1:%d", 18080+i)
	}
	ring := cluster.NewRing(peers, cluster.DefaultReplicas)
	for r := 0; r < ringRounds; r++ {
		p.call(ctx, spanRing, func(_ context.Context, sp *obs.Span) {
			for i := 0; i < loopCalls; i++ {
				ring.OwnersN(keys[(r*loopCalls+i)%len(keys)], cluster.DefaultReplication)
			}
			sp.SetAttrInt("calls", loopCalls)
		})
	}
}

// probeAnalytic times the closed-form lookup the analytic lane makes.
func (p *prober) probeAnalytic(ctx context.Context, k, d int) {
	p.call(ctx, spanAnalytic, func(_ context.Context, sp *obs.Span) {
		for i := 0; i < loopCalls; i++ {
			load.AnalyticAnswer(k, d, 1, "ODR", true)
		}
		sp.SetAttrInt("calls", loopCalls)
	})
}

// spanStats aggregates the probe spans by name.
type spanStats struct {
	durs  map[string][]float64 // seconds per call, by span name (load spans by engine)
	pairs int64                // routed pairs over all load spans
	loadS float64              // seconds in load spans
}

func collectSpans(traces []obs.Trace) spanStats {
	st := spanStats{durs: make(map[string][]float64)}
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			calls := int64(1)
			name := sp.Name
			for _, a := range sp.Attrs {
				switch a.Key {
				case "calls":
					if n, err := strconv.ParseInt(a.Value, 10, 64); err == nil {
						calls = n
					}
				case "pairs":
					if n, err := strconv.ParseInt(a.Value, 10, 64); err == nil {
						st.pairs += n
					}
				case "engine":
					if name == spanLoad {
						name = spanLoad + "/" + a.Value
					}
				}
			}
			if strings.HasPrefix(name, spanLoad+"/") {
				st.loadS += float64(sp.DurationNS) / 1e9
			}
			st.durs[name] = append(st.durs[name], float64(sp.DurationNS)/1e9/float64(max(calls, 1)))
		}
	}
	for _, d := range st.durs {
		sort.Float64s(d)
	}
	return st
}

// median is the median of the named span's per-call time in seconds, or 0.
func (st spanStats) median(name string) float64 {
	return quantile(st.durs[name], 0.5)
}

// setProbeMetrics fills the metrics the probe spans measure.
func (lc *layerContext) setProbeMetrics() {
	st := collectSpans(lc.tracer.Snapshot(0))
	set := func(name string, span string, scale float64, unit string) {
		lc.rep.set(name, st.median(span)*scale, unit)
		lc.rep.notes[name] = fmt.Sprintf("median of %d calls", len(st.durs[span]))
	}
	set("service.handler_us", spanHandler, 1e6, "us")
	set("service.canonicalize_us", spanCanon, 1e6, "us")
	set("service.encode_us", spanEncode, 1e6, "us")
	set("core.analyze_ms", spanCore, 1e3, "ms")
	set("load.generic_ms", spanLoad+"/"+load.EngineGeneric, 1e3, "ms")
	set("load.symmetry_ms", spanLoad+"/"+load.EngineSymmetry, 1e3, "ms")
	set("load.analytic_ns", spanAnalytic, 1e9, "ns")
	set("placement.build_us", spanBuild, 1e6, "us")
	set("placement.stabilizer_us", spanStabilizer, 1e6, "us")
	set("bisect.sweep_ms", spanSweep, 1e3, "ms")
	set("bisect.dimcut_ms", spanDimCut, 1e3, "ms")
	set("cluster.ring_lookup_ns", spanRing, 1e9, "ns")
	lc.rep.set("load.pairs_per_s", share(float64(st.pairs), st.loadS), "1/s")
}

// layers runs the analyze workloads' probes: fresh requests from the
// workload's own stream (the working set on hits) through the handler,
// then each layer function the server would call for them.
func (a *analyzeLoad) layers(ctx context.Context, lc *layerContext) error {
	p := &prober{tracer: lc.tracer}
	deadline := time.Now().Add(lc.budget)
	var keys []string
	for n := 0; n < minProbes || time.Now().Before(deadline); n++ {
		idx, node := a.fresh()
		req := a.request(idx)
		p.input = describe(req)
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		data, err := p.probeHandler(ctx, lc.t.servers[node].Handler(), http.MethodPost, "/v1/analyze", body)
		if err != nil {
			return err
		}
		var resp service.AnalyzeResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if err := p.probeEncode(ctx, resp); err != nil {
			return err
		}
		if resp.Engine == load.EngineAnalytic {
			p.probeAnalytic(ctx, req.K, req.D)
			continue
		}
		canon := req
		p.call(ctx, spanCanon, func(context.Context, *obs.Span) {
			if err = canon.Canonicalize(service.DefaultMaxNodes); err == nil {
				keys = append(keys, canon.CacheKey())
			}
		})
		if err != nil {
			return err
		}
		spec, err := cliutil.ParsePlacement(canon.Placement)
		if err != nil {
			return err
		}
		alg, err := cliutil.ParseRouting(canon.Routing)
		if err != nil {
			return err
		}
		if err := p.probeCompute(ctx, canon.K, canon.D, spec, alg); err != nil {
			return err
		}
	}
	p.probeRing(ctx, keys)
	lc.setProbeMetrics()
	// The handler probes replay the loop's own request mix, so the rest of
	// the client-observed median is transport: loopback HTTP and the
	// client's encode and decode. On the cluster the handler itself makes
	// peer hops, so the share is left at 0 there.
	if len(lc.t.servers) == 1 {
		handler := lc.rep.metrics["service.handler_us"].Value
		lc.rep.set("service.transport_share", 1-handler/(float64(lc.untracedP50)/float64(time.Microsecond)), "ratio")
	}
	symShare, replicaShare := a.layerShares()
	lc.rep.set("load.symmetry_share", symShare, "ratio")
	lc.rep.set("cluster.replica_hit_share", replicaShare, "ratio")
	return nil
}

// minProbes is the least number of inputs the probes cover, however short
// the budget.
const minProbes = 8
